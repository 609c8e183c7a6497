"""Training orchestration: source pretraining, the alternating
pseudo-label / adaptive-learning loop, the source-only and
marginal-alignment baselines, and the end-to-end experiment driver with
its JSON outputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import data as data_mod
from . import evaluation, model as model_mod, objectives, selftrain
from .errors import DivergenceError, UsageError
from .model import ModelParams
from .data import (FRACTION, MAPPING, NONNEGATIVE_INT, NONNEGATIVE_REAL, OPTIONAL_STR,
                   POSITIVE_INT, POSITIVE_REAL, REAL, WIDTHS, require)
from .numerics import mean_entropy, sgd_momentum_step
from .selftrain import K_SCHEDULE_PRESETS, KSchedule

METHODS = ("coal", "source-only", "marginal-align")
ABLATION_FLAGS = ("disable-pseudo-term", "disable-entropy-term")

# seed-stream tags so every random decision is a pure function of
# (config seed, stream, epoch), independent of call order
_STREAM_SOURCE = 1
_STREAM_TARGET = 2
_STREAM_HOLDOUT = 3

# k_schedule keys: k0 and k_max are percentages
_PERCENT = (lambda v: REAL[0](v) and 0 <= v <= 100, "lie in [0, 100]")
_K_SCHEDULE_RULES = {"k0": _PERCENT, "k_step": NONNEGATIVE_REAL, "k_max": _PERCENT}
# the sections a config's data mapping may hold
_DATA_SECTIONS = ("twin_gaussians", "shift", "source", "target")


@dataclass
class TrainConfig:
    method: str = "coal"
    seed: int = 0
    epochs: int = 30
    pretrain_epochs: int = 5
    batch_size: int = 32
    lr_head: float = 0.01
    lr_backbone: float = 0.001
    momentum: float = 0.9
    alpha: float = 0.1
    grl_lambda: float = 1.0
    k_schedule: KSchedule = field(default_factory=KSchedule)
    sampler: str = "balanced"
    ablations: tuple[str, ...] = ()
    hidden_dims: tuple[int, ...] = (32, 16)
    temperature: float = 0.05
    holdout_fraction: float = 0.2
    data: dict = field(default_factory=dict)
    out_dir: str | None = None
    task: str | None = None
    dump_pseudo: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise UsageError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.sampler not in ("balanced", "natural"):
            raise UsageError(f"sampler must be balanced or natural, got {self.sampler!r}")
        ks = self.k_schedule
        if isinstance(ks, str):
            if ks not in K_SCHEDULE_PRESETS:
                raise UsageError(
                    f"k_schedule must be one of {sorted(K_SCHEDULE_PRESETS)} or a dict, got {ks!r}"
                )
            ks = K_SCHEDULE_PRESETS[ks]
        if isinstance(ks, KSchedule):
            ks = vars(ks)
        require(ks, "k_schedule ", known=_K_SCHEDULE_RULES, **_K_SCHEDULE_RULES)
        self.k_schedule = KSchedule(**ks)
        require(vars(self), "", seed=NONNEGATIVE_INT, batch_size=POSITIVE_INT,
                epochs=NONNEGATIVE_INT, pretrain_epochs=NONNEGATIVE_INT, lr_head=NONNEGATIVE_REAL,
                lr_backbone=NONNEGATIVE_REAL, alpha=NONNEGATIVE_REAL, grl_lambda=NONNEGATIVE_REAL,
                momentum=(lambda v: NONNEGATIVE_REAL[0](v) and v < 1, "lie in [0, 1)"),
                temperature=POSITIVE_REAL, holdout_fraction=FRACTION, hidden_dims=WIDTHS,
                ablations=(lambda v: isinstance(v, (list, tuple)), "be a list of flags"),
                dump_pseudo=(lambda v: isinstance(v, bool), "be true or false"),
                data=MAPPING, out_dir=OPTIONAL_STR, task=OPTIONAL_STR)
        self.hidden_dims = tuple(self.hidden_dims)
        self.ablations = tuple(self.ablations)
        for flag in self.ablations:
            if flag not in ABLATION_FLAGS:
                raise UsageError(f"unknown ablation flag {flag!r}")
        if self.ablations and self.method != "coal":
            raise UsageError("ablation flags are only valid with method=coal")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        require(doc, "config ", known={f.name for f in fields(cls)})
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        return cls.from_dict(data_mod.read_json_object(path, UsageError))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["ablations"] = list(self.ablations)
        doc["hidden_dims"] = list(self.hidden_dims)
        return doc


@dataclass
class RunReport:
    """Everything one run produced; the metrics section is fully
    deterministic for a fixed seed/config, timing is not."""

    config: dict
    metrics: dict
    timing: dict

    def to_dict(self) -> dict:
        return {"config": self.config, "metrics": self.metrics, "timing": self.timing}

    def metrics_payload(self) -> str:
        return json.dumps(self.metrics, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))


def _learning_rates(params: ModelParams, config: TrainConfig) -> dict[str, float]:
    lrs = {}
    for block in params.extractor_blocks():
        lrs[block.name] = config.lr_backbone
    for block in params.classifier_blocks() + params.domain_blocks():
        lrs[block.name] = config.lr_head
    return lrs


def _batch_plan(dataset, config: TrainConfig, stream: int, global_epoch: int, sampler: str):
    seed = [config.seed, stream, global_epoch]
    if sampler == "balanced":
        return data_mod.balanced_batches(dataset, config.batch_size, seed)
    return data_mod.natural_batches(dataset, config.batch_size, seed)


def evaluate_model(params: ModelParams, dataset: data_mod.LabeledDataset) -> dict:
    probs = model_mod.forward_full(params, dataset.features).probs
    cm = evaluation.confusion_matrix(dataset.labels, probs.argmax(axis=1), dataset.num_classes)
    return {
        "per_class_mean_accuracy": evaluation.per_class_mean_accuracy(cm),
        "overall_accuracy": evaluation.overall_accuracy(cm),
        "confusion": cm.tolist(),
    }


# the step values that are losses: each is checked for finiteness and written
# to the step log; the epoch record averages every step value, so it also
# holds per-step statistics such as the discriminator's batch accuracy
_STEP_LOSSES = ("l_sc", "l_target_pseudo", "l_st", "l_h", "l_domain")


def _run_epoch(
    params: ModelParams,
    config: TrainConfig,
    global_epoch: int,
    phase: str,
    step: Callable[..., dict[str, float]],
    source: data_mod.LabeledDataset,
    target: data_mod.LabeledDataset | None = None,
    *,
    alpha: float = 0.0,
    extra: dict | None = None,
    holdout: data_mod.LabeledDataset | None = None,
    step_log: list | None = None,
) -> dict:
    """The epoch loop of every method.

    Each optimizer step calls ``step`` with a source batch (and a target
    batch when ``target`` is given; the shorter plan cycles). ``step``
    accumulates the gradients of its objective and returns its values by
    name; a step that returns no ``l_target_pseudo`` or ``l_h`` reports
    them as 0.0. The record holds the epoch mean of every step value, then
    ``extra``, then the holdout metrics; ``alpha`` is logged with each step.
    """
    lrs = _learning_rates(params, config)
    plans = [_batch_plan(source, config, _STREAM_SOURCE, global_epoch, config.sampler)]
    if target is not None:
        plans.append(_batch_plan(target, config, _STREAM_TARGET, global_epoch, "natural"))
    steps = max(len(plan) for plan in plans)
    sums: dict[str, float] = {}
    for i in range(steps):
        values = {"l_target_pseudo": 0.0, "l_h": 0.0,
                  **step(*(plan[i % len(plan)] for plan in plans))}
        losses = {key: val for key, val in values.items() if key in _STEP_LOSSES}
        for key, val in losses.items():
            if not np.isfinite(val):
                raise DivergenceError(f"non-finite {key} ({val}) at epoch {global_epoch}, step {i}")
        sgd_momentum_step(params.all_blocks(), lrs, config.momentum)
        for key, val in values.items():
            sums[key] = sums.get(key, 0.0) + val
        if step_log is not None:
            step_log.append({"epoch": global_epoch, "phase": phase, "step": i, "alpha": alpha, **losses})
    record = {"epoch": global_epoch, "phase": phase, "k": None,
              "estimated_target_distribution": None, "masked_pseudo_accuracy": None,
              "domain_discriminator_accuracy": None,
              **{key: val / steps for key, val in sums.items()}, **(extra or {})}
    if holdout is not None:
        record.update(evaluate_model(params, holdout))
        record.pop("confusion")
    return record


def _source_step(params: ModelParams, source: data_mod.LabeledDataset, batch: np.ndarray) -> dict:
    """The supervised step of source-only training."""
    l_sc = objectives.source_classification_loss(params, source.features[batch], source.labels[batch])
    return {"l_sc": l_sc, "l_st": l_sc}


def pretrain(
    params: ModelParams,
    source: data_mod.LabeledDataset,
    config: TrainConfig,
    *,
    epochs: int | None = None,
    start_epoch: int = 0,
    holdout: data_mod.LabeledDataset | None = None,
    phase: str = "pretrain",
    step_log: list | None = None,
) -> list[dict]:
    """Supervised training on source batches only; returns epoch records."""
    epochs = config.pretrain_epochs if epochs is None else epochs
    step = partial(_source_step, params, source)
    return [
        _run_epoch(params, config, start_epoch + e, phase, step, source,
                   holdout=holdout, step_log=step_log)
        for e in range(epochs)
    ]


def run_coal_epoch(
    params: ModelParams,
    source: data_mod.LabeledDataset,
    target_train: data_mod.LabeledDataset,
    config: TrainConfig,
    epoch: int,
    *,
    holdout: data_mod.LabeledDataset | None = None,
    step_log: list | None = None,
    pseudo_dir: str | Path | None = None,
) -> dict:
    """One adaptation epoch: pseudo-label assignment, per-class top-k
    selection, then paired source/target steps of the combined objective."""
    k = selftrain.advance_k(config.k_schedule, epoch)
    pseudo_labels, confidence = selftrain.assign_pseudo_labels(params, target_train.features)
    pseudo = selftrain.select_top_k_per_class(pseudo_labels, confidence, k, target_train.num_classes)
    selected = pseudo.mask == 1
    extra = {"k": k, "alpha": config.alpha}
    if selected.any():
        extra["estimated_target_distribution"] = selftrain.estimate_target_distribution(pseudo).tolist()
        extra["masked_pseudo_accuracy"] = float(
            (pseudo.labels[selected] == target_train.labels[selected]).mean()
        )
    else:
        extra["warnings"] = ["no pseudo labels selected; epoch ran on the supervised loss only"]
    if pseudo_dir is not None:
        selftrain.write_pseudo_csv(pseudo, Path(pseudo_dir) / f"pseudo_epoch_{epoch:03d}.csv")

    use_pseudo = "disable-pseudo-term" not in config.ablations and selected.any()
    use_entropy = "disable-entropy-term" not in config.ablations

    def step(sb: np.ndarray, tb: np.ndarray) -> dict:
        tgt_x = target_train.features[tb]
        if not (use_pseudo or use_entropy):
            # the source-only step itself, so a double ablation stays
            # bit-identical to source-only; the entropy is only reported
            values = _source_step(params, source, sb)
            values["l_h"], _ = mean_entropy(model_mod.forward_full(params, tgt_x).probs)
            return values
        return objectives.coal_objective(
            params, source.features[sb], source.labels[sb], tgt_x, pseudo.labels[tb],
            pseudo.mask[tb].astype(np.float64) if use_pseudo else None,
            config.alpha, entropy_term=use_entropy,
        )

    return _run_epoch(params, config, config.pretrain_epochs + epoch, "adapt", step,
                      source, target_train, alpha=config.alpha, extra=extra,
                      holdout=holdout, step_log=step_log)


def run_marginal_align_epoch(
    params: ModelParams,
    source: data_mod.LabeledDataset,
    target_train: data_mod.LabeledDataset,
    config: TrainConfig,
    epoch: int,
    *,
    holdout: data_mod.LabeledDataset | None = None,
    step_log: list | None = None,
) -> dict:
    """Supervised loss plus adversarial domain confusion on embeddings; no
    conditioning and no self-training."""

    def step(sb: np.ndarray, tb: np.ndarray) -> dict:
        return objectives.marginal_align_objective(
            params, source.features[sb], source.labels[sb], target_train.features[tb],
            config.grl_lambda,
        )

    return _run_epoch(params, config, config.pretrain_epochs + epoch, "adapt", step,
                      source, target_train, holdout=holdout, step_log=step_log)


def resolve_datasets(
    config: TrainConfig,
) -> tuple[data_mod.LabeledDataset, data_mod.LabeledDataset, data_mod.LabeledDataset, dict, dict]:
    """Build (source, target_train, target_holdout) plus the two manifest
    recipes from the config's data section."""
    section = config.data
    require(section, "config data section ", known=_DATA_SECTIONS)
    for name in _DATA_SECTIONS:
        if name in section and not isinstance(section[name], dict):
            raise UsageError(f"config data section {name!r} must be a mapping, got {section[name]!r}")
    if "twin_gaussians" in section:
        gen = dict(section["twin_gaussians"])
        shift = section.get("shift")
        src_recipe = {"kind": "twin-gaussians", "domain": "source", "generator": gen}
        tgt_recipe = {"kind": "twin-gaussians", "domain": "target", "generator": gen}
        if shift:
            shift_seed = shift.get("seed", 0)
            src_recipe["shift"] = {**shift, "direction": data_mod.DIRECTION_SOURCE, "seed": shift_seed}
            tgt_recipe["shift"] = {**shift, "direction": data_mod.DIRECTION_TARGET, "seed": shift_seed + 1}
    elif "source" in section and "target" in section:
        src_recipe = section["source"]
        tgt_recipe = section["target"]
    else:
        raise UsageError("config data section needs either twin_gaussians or source/target recipes")
    source = data_mod.materialize_dataset(src_recipe)
    target = data_mod.materialize_dataset(tgt_recipe)
    if source.num_classes != target.num_classes or source.features.shape[1] != target.features.shape[1]:
        raise UsageError("source and target datasets disagree on classes or feature dimension")
    target_train, target_holdout = data_mod.stratified_split(
        target, **_holdout_split(config)
    )
    return source, target_train, target_holdout, src_recipe, tgt_recipe


def _holdout_split(config: TrainConfig) -> dict:
    """The seeded target split, in the form a manifest recipe's ``split``
    block takes."""
    return {"holdout_fraction": config.holdout_fraction, "seed": [config.seed, _STREAM_HOLDOUT]}


def run_experiment(config: TrainConfig) -> RunReport:
    """Resolve data, train per the configured method, and assemble the report.

    With an out_dir set, also writes report.json, metrics.jsonl, the model
    checkpoint, dataset manifests, and (optionally) per-epoch pseudo-label
    dumps.
    """
    t_start = time.perf_counter()
    source, target_train, target_holdout, src_recipe, tgt_recipe = resolve_datasets(config)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        data_mod.write_manifest(source, out_dir / "source_manifest.json", src_recipe, config.seed)
        split = _holdout_split(config)
        for part, dataset in (("train", target_train), ("holdout", target_holdout)):
            recipe = {**tgt_recipe, "split": {**split, "part": part}}
            data_mod.write_manifest(dataset, out_dir / f"target_{part}_manifest.json", recipe, config.seed)

    params = model_mod.init_model(
        source.features.shape[1], config.hidden_dims, source.num_classes,
        temperature=config.temperature, seed=config.seed,
    )
    step_log: list[dict] = []
    epoch_times: list[float] = []
    records = []

    pseudo_dir = out_dir if (config.dump_pseudo and out_dir is not None) else None
    for global_epoch in range(config.pretrain_epochs + config.epochs):
        t0 = time.perf_counter()
        epoch = global_epoch - config.pretrain_epochs
        if epoch < 0 or config.method == "source-only":
            record = pretrain(
                params, source, config, epochs=1, start_epoch=global_epoch,
                holdout=target_holdout, phase="pretrain" if epoch < 0 else "adapt",
                step_log=step_log,
            )[0]
        elif config.method == "coal":
            record = run_coal_epoch(
                params, source, target_train, config, epoch,
                holdout=target_holdout, step_log=step_log, pseudo_dir=pseudo_dir,
            )
        else:
            record = run_marginal_align_epoch(
                params, source, target_train, config, epoch,
                holdout=target_holdout, step_log=step_log,
            )
        records.append(record)
        epoch_times.append(time.perf_counter() - t0)

    final = evaluate_model(params, target_holdout)
    true_dist = evaluation.label_distribution(target_train.class_counts())
    last_estimate = next(
        (r["estimated_target_distribution"] for r in reversed(records)
         if r.get("estimated_target_distribution") is not None),
        None,
    )
    if last_estimate is not None:
        comparison = evaluation.compare_distributions(np.asarray(last_estimate), true_dist)
        final["estimated_vs_true_js_distance"] = comparison["js_distance"]
        final["estimated_vs_true_l1"] = comparison["l1"]
    else:
        final["estimated_vs_true_js_distance"] = None
        final["estimated_vs_true_l1"] = None
    metrics = {
        "true_target_distribution": true_dist.tolist(),
        "epochs": records,
        "final": final,
    }
    timing = {"wall_time_s": time.perf_counter() - t_start, "per_epoch_s": epoch_times}
    report = RunReport(config=config.to_dict(), metrics=metrics, timing=timing)

    if out_dir is not None:
        report.save(out_dir / "report.json")
        with open(out_dir / "metrics.jsonl", "w") as fh:
            for entry in step_log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        model_mod.save_checkpoint(params, out_dir / "checkpoint.json")
    return report


def sweep_degrees(config: TrainConfig, degrees: list[float]) -> list[RunReport]:
    """Re-run one config across shift degrees; each run gets its own out dir."""
    if "shift" not in config.data:
        raise UsageError("sweep requires a data section with a shift block")
    reports = []
    for degree in degrees:
        data = json.loads(json.dumps(config.data))
        data["shift"]["degree"] = degree
        out = str(Path(config.out_dir) / f"degree_{degree:g}") if config.out_dir else None
        reports.append(run_experiment(replace(config, data=data, out_dir=out)))
    return reports


def run_ablations(config: TrainConfig) -> list[RunReport]:
    """Full model plus each single-term ablation, same seed and data."""
    if config.method != "coal":
        raise UsageError("ablation study requires method=coal")
    variants = [(), ("disable-pseudo-term",), ("disable-entropy-term",)]
    reports = []
    for flags in variants:
        suffix = "full" if not flags else flags[0]
        out = str(Path(config.out_dir) / suffix) if config.out_dir else None
        reports.append(run_experiment(replace(config, ablations=flags, out_dir=out)))
    return reports
