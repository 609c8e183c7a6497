"""Training orchestration: source pretraining, the alternating
pseudo-label / adaptive-learning loop, the source-only and
marginal-alignment baselines, and the end-to-end experiment driver with
its JSON outputs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import data as data_mod
from . import evaluation, model as model_mod, objectives, selftrain
from .errors import DivergenceError, UsageError
from .model import ModelParams
from .data import (FRACTION, MAPPING, NONNEGATIVE_INT, NONNEGATIVE_REAL, OPTIONAL_STR, PERCENT,
                   POSITIVE_INT, POSITIVE_REAL, WIDTHS, require)
from .numerics import sgd_momentum_step
from .selftrain import K_SCHEDULE_PRESETS, check_k_schedule

METHODS = ("coal", "source-only", "marginal-align")
ABLATION_FLAGS = ("disable-pseudo-term", "disable-entropy-term")

# seed-stream tags so every random decision is a pure function of
# (config seed, stream, epoch), independent of call order
_STREAM_SOURCE = 1
_STREAM_TARGET = 2
_STREAM_HOLDOUT = 3

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
    k_schedule: str | dict = "default"
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
        require(vars(self), "", method=(lambda v: v in METHODS, f"be one of {METHODS}"),
                sampler=(lambda v: v in ("balanced", "natural"), "be balanced or natural"),
                seed=NONNEGATIVE_INT, batch_size=POSITIVE_INT,
                epochs=NONNEGATIVE_INT, pretrain_epochs=NONNEGATIVE_INT, lr_head=NONNEGATIVE_REAL,
                lr_backbone=NONNEGATIVE_REAL, alpha=NONNEGATIVE_REAL, grl_lambda=NONNEGATIVE_REAL,
                momentum=(lambda v: NONNEGATIVE_REAL[0](v) and v < 1, "lie in [0, 1)"),
                temperature=POSITIVE_REAL, holdout_fraction=FRACTION, hidden_dims=WIDTHS,
                # tuples are searched before set() hashes: a list entry cannot be hashed
                ablations=(lambda v: isinstance(v, (list, tuple))
                           and all(f in ABLATION_FLAGS for f in v) and len(set(v)) == len(v),
                           f"be a list of distinct flags from {ABLATION_FLAGS}"),
                k_schedule=(lambda v: isinstance(v, dict) or v in tuple(K_SCHEDULE_PRESETS),
                            f"be one of {sorted(K_SCHEDULE_PRESETS)} or a dict"),
                dump_pseudo=(lambda v: isinstance(v, bool), "be true or false"),
                data=MAPPING, out_dir=OPTIONAL_STR, task=OPTIONAL_STR)
        ks = self.k_schedule
        if isinstance(ks, str):
            ks = K_SCHEDULE_PRESETS[ks]
        # a partial dict keeps the default preset's other keys
        self.k_schedule = {**K_SCHEDULE_PRESETS["default"], **ks}
        check_k_schedule(self.k_schedule)
        # one run, one spelling: flags are kept in ABLATION_FLAGS order
        self.ablations = tuple(f for f in ABLATION_FLAGS if f in self.ablations)
        if self.ablations and self.method != "coal":
            raise UsageError("ablation flags are only valid with method=coal")
        if self.dump_pseudo and not self.out_dir:
            raise UsageError("dump_pseudo needs an out_dir to write the pseudo-label dumps into")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        require(doc, "config ", known={f.name for f in fields(cls)})
        return cls(**doc)

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


def _learning_rates(params: ModelParams, config: TrainConfig) -> dict[str, np.ndarray]:
    """The arena's per-element learning rates: lr_backbone on the extractor,
    lr_head on the prototypes and the domain head."""
    extractor = {block.name for block in params.extractor_blocks()}
    return {params.arena.name: np.concatenate([
        np.full(block.value.size, config.lr_backbone if block.name in extractor else config.lr_head)
        for block in params.all_blocks()])}


def _batch_plan(dataset, config: TrainConfig, stream: int, global_epoch: int, sampler: str):
    seed = [config.seed, stream, global_epoch]
    if sampler == "balanced":
        return data_mod.balanced_batches(dataset, config.batch_size, seed)
    return data_mod.natural_batches(dataset, config.batch_size, seed)


def evaluate_model(params: ModelParams, dataset: data_mod.LabeledDataset) -> dict:
    probs = model_mod.predict(params, dataset.features)
    cm = evaluation.confusion_matrix(dataset.labels, probs.argmax(axis=1), dataset.num_classes)
    return {
        "per_class_mean_accuracy": evaluation.per_class_mean_accuracy(cm),
        "overall_accuracy": evaluation.overall_accuracy(cm),
        "confusion": cm.tolist(),
    }


def _run_epoch(params: ModelParams, data: tuple, config: TrainConfig, epoch: int, step_log: list,
               objective: Callable[..., dict[str, float]], target_rows: tuple = (), **options) -> dict:
    """The epoch loop of every method at global epoch ``epoch``, over the
    run's ``data`` (source, target_train, target_holdout).

    Each optimizer step calls ``objective(params, source inputs, source
    labels, *target batch rows, **options)``, with one target_train batch
    of each array in ``target_rows`` (none, and no target plan, when it is
    empty; the shorter plan cycles). The objective accumulates its
    gradients and returns its values by name; each value is checked for
    finiteness, and the step's values are appended to ``step_log`` as
    returned. The record holds the epoch mean of every step value, then the
    holdout metrics.
    """
    source, target_train, holdout = data
    phase = "pretrain" if epoch < config.pretrain_epochs else "adapt"
    lrs = _learning_rates(params, config)
    plans = [_batch_plan(source, config, _STREAM_SOURCE, epoch, config.sampler)]
    if target_rows:
        plans.append(_batch_plan(target_train, config, _STREAM_TARGET, epoch, "natural"))
    steps = max(len(plan) for plan in plans)
    sums: dict[str, float] = {}
    for i in range(steps):
        sb, *tb = (plan[i % len(plan)] for plan in plans)
        values = objective(params, source.features[sb], source.labels[sb],
                           *(rows[b] for b in tb for rows in target_rows), **options)
        for key, val in values.items():
            if not math.isfinite(val):
                raise DivergenceError(f"non-finite {key} ({val}) at epoch {epoch}, step {i}")
            sums[key] = sums.get(key, 0.0) + val
        sgd_momentum_step([params.arena], lrs, config.momentum)
        step_log.append({"epoch": epoch, "phase": phase, "step": i, **values})
    record = {"epoch": epoch, "phase": phase, **{key: val / steps for key, val in sums.items()},
              **evaluate_model(params, holdout)}
    record.pop("confusion")
    return record


def pretrain(params: ModelParams, data: tuple, config: TrainConfig, epoch: int,
             step_log: list) -> dict:
    """One epoch of supervised training on source batches only; the
    source-only baseline also runs it after pretraining."""
    return _run_epoch(params, data, config, epoch, step_log, objectives.source_classification_loss)


def run_coal_epoch(params: ModelParams, data: tuple, config: TrainConfig, epoch: int,
                   step_log: list) -> dict:
    """One adaptation epoch: pseudo-label assignment, per-class top-k
    selection, then source/target_train steps of the combined objective.
    The k schedule and the pseudo-label dump count adaptation epochs."""
    target_train = data[1]
    adapt_epoch = epoch - config.pretrain_epochs
    k = selftrain.advance_k(config.k_schedule, adapt_epoch)
    pseudo_labels, confidence = selftrain.assign_pseudo_labels(params, target_train.features)
    pseudo = selftrain.select_top_k_per_class(pseudo_labels, confidence, k, target_train.num_classes)
    selected = pseudo.mask == 1
    # an ablated term stays in the objective as a zero weight or a zero alpha;
    # with both, every target row's gradient is +0.0 and the run trains as source-only
    weights = pseudo.mask * float("disable-pseudo-term" not in config.ablations)
    alpha = 0.0 if "disable-entropy-term" in config.ablations else config.alpha
    extra = {"k": k, "alpha": alpha}
    if selected.any():
        extra["estimated_target_distribution"] = evaluation.label_distribution(
            np.bincount(pseudo.labels[selected], minlength=target_train.num_classes)).tolist()
        extra["masked_pseudo_accuracy"] = float(
            (pseudo.labels[selected] == target_train.labels[selected]).mean()
        )
    else:
        extra["warnings"] = ["no pseudo labels selected; the pseudo-label term was zero this epoch"]
    if config.dump_pseudo:
        selftrain.write_pseudo_csv(pseudo, Path(config.out_dir) / f"pseudo_epoch_{adapt_epoch:03d}.csv")
    return {**_run_epoch(params, data, config, epoch, step_log, objectives.coal_objective,
                         (target_train.features, pseudo.labels, weights), alpha=alpha), **extra}


def run_marginal_align_epoch(params: ModelParams, data: tuple, config: TrainConfig, epoch: int,
                             step_log: list) -> dict:
    """Supervised loss plus adversarial domain confusion on embeddings; no
    conditioning and no self-training."""
    return _run_epoch(params, data, config, epoch, step_log, objectives.marginal_align_objective,
                      (data[1].features,), grl_lambda=config.grl_lambda)


def resolve_datasets(config: TrainConfig) -> tuple[tuple, dict[str, dict]]:
    """The run's (source, target_train, target_holdout) and the recipe each
    one's manifest records, keyed source, target_train and target_holdout.
    Each target part is its recipe's split of the one materialized target,
    so ``materialize_dataset`` rebuilds every part from its recipe."""
    section = config.data
    require(section, "config data section ", known=_DATA_SECTIONS,
            **dict.fromkeys(_DATA_SECTIONS, MAPPING))
    # one form: the twin-Gaussian generator with an optional shift, or two recipes
    if "twin_gaussians" in section and not {"source", "target"} & section.keys():
        gen = dict(section["twin_gaussians"])
        shift = section.get("shift")
        src_recipe = {"kind": "twin-gaussians", "domain": "source", "generator": gen}
        tgt_recipe = {"kind": "twin-gaussians", "domain": "target", "generator": gen}
        if shift is not None:
            # the run sets each side's direction
            require(shift, "config data shift ", seed=NONNEGATIVE_INT,
                    known=[key for key in data_mod.SHIFT_RULES if key != "direction"])
            shift_seed = shift.get("seed", 0)
            src_recipe["shift"] = {**shift, "direction": data_mod.DIRECTION_SOURCE, "seed": shift_seed}
            tgt_recipe["shift"] = {**shift, "direction": data_mod.DIRECTION_TARGET, "seed": shift_seed + 1}
    elif section.keys() == {"source", "target"}:
        src_recipe = section["source"]
        tgt_recipe = section["target"]
        if "split" in tgt_recipe:
            # a manifest recipe holds one split, the run's own holdout split
            raise UsageError("config data target recipe must not hold a split block, got "
                             f"{tgt_recipe['split']!r}; the run splits the target itself")
    else:
        raise UsageError("config data section needs either twin_gaussians with an optional shift "
                         f"or source/target recipes, got {sorted(section)}")
    source = data_mod.materialize_dataset(src_recipe)
    target = data_mod.materialize_dataset(tgt_recipe)
    sides = [(d.num_classes, d.features.shape[1]) for d in (source, target)]
    if sides[0] != sides[1]:
        raise UsageError("source and target datasets disagree on classes or feature dimension: "
                         + ", ".join(f"{name} has {c} classes and {f} features"
                                     for name, (c, f) in zip(("source", "target"), sides)))
    split = {"holdout_fraction": config.holdout_fraction, "seed": [config.seed, _STREAM_HOLDOUT]}
    recipes = {"source": src_recipe, **{
        f"target_{part}": {**tgt_recipe, "split": {**split, "part": part}}
        for part in data_mod.SPLIT_PARTS}}
    target_parts = (data_mod.take_split(target, recipes[f"target_{part}"]["split"])
                    for part in data_mod.SPLIT_PARTS)
    return (source, *target_parts), recipes


def run_experiment(config: TrainConfig) -> RunReport:
    """Resolve data, train per the configured method, and assemble the report.

    With an out_dir set, also writes report.json, metrics.jsonl, the model
    checkpoint, dataset manifests, and (optionally) per-epoch pseudo-label
    dumps.
    """
    t_start = time.perf_counter()
    data, recipes = resolve_datasets(config)
    source, target_train, target_holdout = data
    out_dir = data_mod.make_out_dir(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        for (name, recipe), dataset in zip(recipes.items(), data):
            data_mod.write_manifest(dataset, out_dir / f"{name}_manifest.json", recipe)

    params = model_mod.init_model(
        source.features.shape[1], config.hidden_dims, source.num_classes,
        temperature=config.temperature, seed=config.seed,
    )
    step_log: list[dict] = []
    epoch_times: list[float] = []
    records = []

    # looked up per run, so a wrapped module attribute is the one called
    adapt = {"coal": run_coal_epoch, "marginal-align": run_marginal_align_epoch,
             "source-only": pretrain}[config.method]
    for epoch in range(config.pretrain_epochs + config.epochs):
        t0 = time.perf_counter()
        run_epoch = pretrain if epoch < config.pretrain_epochs else adapt
        records.append(run_epoch(params, data, config, epoch, step_log))
        epoch_times.append(time.perf_counter() - t0)

    final = evaluate_model(params, target_holdout)
    true_dist = evaluation.label_distribution(target_train.class_counts())
    estimates = [r["estimated_target_distribution"] for r in records
                 if "estimated_target_distribution" in r]
    if estimates:
        final.update({f"estimated_vs_true_{key}": value for key, value in
                      evaluation.compare_distributions(estimates[-1], true_dist).items()})
    metrics = {
        "true_target_distribution": true_dist.tolist(),
        "epochs": records,
        "final": final,
    }
    timing = {"wall_time_s": time.perf_counter() - t_start, "per_epoch_s": epoch_times}
    report = RunReport(config=config.to_dict(), metrics=metrics, timing=timing)

    if out_dir is not None:
        report.save(out_dir / "report.json")
        encode = json.JSONEncoder(sort_keys=True).encode
        (out_dir / "metrics.jsonl").write_text("".join(encode(entry) + "\n" for entry in step_log))
        model_mod.save_checkpoint(params, out_dir / "checkpoint.json")
    return report


def run_experiments(configs: list[TrainConfig]) -> list[RunReport]:
    """The one driver of many runs: one report per config, in order. Two
    configs whose out_dirs name one directory, however spelled, fail
    before any run starts."""
    named = [config.out_dir for config in configs if config.out_dir]
    dirs = [Path(out).resolve() for out in named]
    for out, resolved in zip(named, dirs):
        if dirs.count(resolved) > 1:
            raise UsageError(f"two runs would write to out_dir {out!r}")
    # looked up per run, so a wrapped module attribute is the one called
    return [run_experiment(config) for config in configs]


def _variant(config: TrainConfig, name: str, **changes) -> TrainConfig:
    """``config`` with ``changes``, writing into ``<out_dir>/<name>`` when it has an out_dir."""
    out = str(Path(config.out_dir) / name) if config.out_dir else None
    return replace(config, out_dir=out, **changes)


def degree_configs(config: TrainConfig, degrees: list[float]) -> list[TrainConfig]:
    """One config per shift degree, each with its own out dir ``degree_{d:g}``.
    Two degrees of one name would fill one table cell ``d={d:g}%``, so they fail."""
    if not isinstance(config.data.get("shift"), dict):
        raise UsageError("sweep requires a data section with a shift block")
    configs, names = [], []
    for degree in degrees:
        require({"degree": degree}, "sweep ", degree=PERCENT)
        degree += 0.0  # -0.0 is degree 0
        data = json.loads(json.dumps(config.data))
        data["shift"]["degree"] = degree
        names.append(f"degree_{degree:g}")
        configs.append(_variant(config, names[-1], data=data))
        if names.count(names[-1]) > 1:
            run = configs[-1].out_dir or names[-1]
            raise UsageError(f"sweep repeats degree {degree:g} (run {run})")
    return configs


def ablation_configs(config: TrainConfig) -> list[TrainConfig]:
    """The full model, then each single-term ablation; out dirs ``full`` and ``<flag>``."""
    if config.method != "coal":
        raise UsageError("ablation study requires method=coal")
    return [_variant(config, flags[0] if flags else "full", ablations=flags)
            for flags in [(), *((flag,) for flag in ABLATION_FLAGS)]]
