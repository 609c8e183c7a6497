"""Command-line entry points: split generation, training, degree sweeps,
ablation studies, checkpoint evaluation, and result tables.
"""

from __future__ import annotations

import argparse
import glob as glob_mod
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluation, model as model_mod, trainer
from .errors import CoalignError, ConsistencyError, FormatError, UsageError


def _degree_list(text: str) -> list[float]:
    """The --degrees value: comma-separated shift degrees in percent."""
    try:
        return [float(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_gen_shift(args: argparse.Namespace) -> int:
    recipe = data_mod.read_json_object(args.recipe)
    dataset = data_mod.materialize_dataset(recipe)
    out = data_mod.make_out_dir(args.out)
    with open(out / "data.csv", "w") as fh:
        cols = [f"x{i}" for i in range(dataset.features.shape[1])]
        fh.write(",".join(cols + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label}\n")
    data_mod.write_manifest(dataset, out / "manifest.json", recipe)
    print(f"wrote {len(dataset)} samples to {out}/data.csv")
    print(f"per-class counts: {dataset.class_counts().tolist()}")
    return 0


def _load_config(args: argparse.Namespace) -> trainer.TrainConfig:
    """The --config file with --out-dir and --dump-pseudo, when given, in
    place of its own values; the result is checked as one document."""
    doc = data_mod.read_json_object(args.config)
    if args.out_dir:
        doc["out_dir"] = args.out_dir
    if getattr(args, "dump_pseudo", False):
        doc["dump_pseudo"] = True
    return trainer.TrainConfig.from_dict(doc)


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = trainer.run_experiment(config)
    final = report.metrics["final"]
    print(f"method={config.method} seed={config.seed}")
    print(f"final per-class mean accuracy: {final['per_class_mean_accuracy']:.4f}")
    print(f"final overall accuracy:        {final['overall_accuracy']:.4f}")
    if config.out_dir:
        print(f"outputs in {config.out_dir}")
    return 0


def _run_table(configs: list[trainer.TrainConfig], out_dir: str | None, table_name: str) -> int:
    """Run ``configs``, print their markdown table and write it into ``out_dir``, when set."""
    reports = trainer.run_experiments(configs)
    table = evaluation.render_table([r.to_dict() for r in reports], "markdown")
    print(table, end="")
    if out_dir:
        Path(out_dir, table_name).write_text(table)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    return _run_table(trainer.degree_configs(config, args.degrees), config.out_dir, "sweep_table.md")


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    return _run_table(trainer.ablation_configs(config), config.out_dir, "ablation_table.md")


def cmd_eval(args: argparse.Namespace) -> int:
    params = model_mod.load_checkpoint(args.checkpoint)
    manifest = data_mod.read_json_object(args.data)
    data_mod.require(manifest, f"{args.data}: manifest ", ("recipe", "sha256"), FormatError,
                     recipe=data_mod.MAPPING, sha256=data_mod.STRING)
    dataset = data_mod.materialize_dataset(manifest["recipe"])
    rebuilt = data_mod.build_manifest(dataset, manifest["recipe"])
    # compared as JSON text, so 1.0 or true does not pass for 1
    differ = [key for key in sorted(manifest.keys() | rebuilt.keys())
              if key not in rebuilt or json.dumps(manifest.get(key)) != json.dumps(rebuilt[key])]
    if differ:
        raise ConsistencyError(f"{args.data}: the dataset its recipe regenerates does not match "
                               f"its {', '.join(differ)}")
    if dataset.num_classes != params.num_classes:
        raise ConsistencyError(f"{args.checkpoint} predicts {params.num_classes} classes but "
                               f"{args.data} holds {dataset.num_classes}")
    if dataset.features.shape[1] != params.input_dim:
        raise ConsistencyError(f"{args.checkpoint} takes {params.input_dim} features but "
                               f"{args.data} holds {dataset.features.shape[1]}")
    scores = trainer.evaluate_model(params, dataset)
    cm = np.array(scores["confusion"])
    predicted_dist = evaluation.label_distribution(cm.sum(axis=0))
    true_dist = evaluation.label_distribution(cm.sum(axis=1))
    comparison = evaluation.compare_distributions(predicted_dist, true_dist)
    out = data_mod.make_out_dir(args.out_dir)
    print(f"per-class mean accuracy: {scores['per_class_mean_accuracy']:.4f}")
    print(f"overall accuracy:        {scores['overall_accuracy']:.4f}")
    print(f"predicted-vs-true label JS distance: {comparison['js_distance']:.4f}")
    print(f"predicted-vs-true label L1:          {comparison['l1']:.4f}")
    np.savetxt(out / "confusion.csv", cm, fmt="%d", delimiter=",")
    # only the projection needs the embeddings
    embeddings = model_mod.forward_full(params, dataset.features).embeddings
    projected = evaluation.project_features_2d(embeddings)
    with open(out / "features_2d.csv", "w") as fh:
        fh.write("component1,component2,label\n")
        for row, label in zip(projected, dataset.labels):
            fh.write(f"{row[0]:.12g},{row[1]:.12g},{label}\n")
    print(f"wrote {out}/confusion.csv and {out}/features_2d.csv")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    paths = sorted(glob_mod.glob(args.glob))
    if not paths:
        raise UsageError(f"no reports match {args.glob!r}")
    reports = [data_mod.read_json_object(p) for p in paths]
    print(evaluation.render_table(reports, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-shift", help="generate a label-shifted split")
    p.add_argument("--recipe", required=True,
                   help="dataset recipe JSON, as in a config's data.source or a manifest's recipe")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_shift)

    p = sub.add_parser("train", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None, help="override the config's out_dir")
    p.add_argument("--dump-pseudo", action="store_true",
                   help="write per-epoch pseudo-label CSVs for audit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="re-run a config across shift degrees")
    p.add_argument("--config", required=True)
    p.add_argument("--degrees", type=_degree_list, default="0,20,40,60,80,100")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="full model vs single-term ablations")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a method-by-task table from reports")
    p.add_argument("--glob", required=True)
    p.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a package error is one line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CoalignError as exc:
        print(f"coalign: error: {exc}", file=sys.stderr)
        return 2
