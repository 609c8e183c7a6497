"""Command-line entry points: split generation, training, degree sweeps,
ablation studies, checkpoint evaluation, and result tables.
"""

from __future__ import annotations

import argparse
import glob as glob_mod
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluation, model as model_mod, trainer
from .errors import ConsistencyError, TableError


def _parse_synthetic(spec: str) -> dict:
    """synthetic:key=value,... generator spec for gen-shift.

    Keys: classes, per_class, noise, rotation, tx, ty, radius, seed, domain.
    """
    params = {"classes": 4, "per_class": 500, "noise": 0.6, "rotation": 0.0,
              "tx": 0.0, "ty": 0.0, "radius": 2.0, "seed": 0, "domain": "source"}
    body = spec[len("synthetic:"):]
    for item in filter(None, body.split(",")):
        key, _, value = item.partition("=")
        if key not in params:
            raise SystemExit(f"unknown synthetic key {key!r} (have {sorted(params)})")
        # the type of each key's default is the type its value must parse as
        parse = type(params[key])
        try:
            params[key] = parse(value)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise SystemExit(f"synthetic key {key!r} must be {kind}, got {value!r}") from None
    return {
        "kind": "twin-gaussians",
        "domain": params["domain"],
        "generator": {
            "num_classes": params["classes"],
            "per_class": params["per_class"],
            "noise": params["noise"],
            "rotation_deg": params["rotation"],
            "translation": [params["tx"], params["ty"]],
            "radius": params["radius"],
            "seed": params["seed"],
        },
    }


def _input_recipe(text: str) -> dict:
    if text.startswith("synthetic:"):
        return _parse_synthetic(text)
    path = Path(text)
    if path.suffix == ".csv":
        return {"kind": "csv", "path": str(path)}
    raise SystemExit(f"--input must be a .csv path or a synthetic: spec, got {text!r}")


def _degree_list(text: str) -> list[float]:
    """The --degrees value: comma-separated shift degrees in percent."""
    try:
        return [float(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_gen_shift(args: argparse.Namespace) -> int:
    recipe = _input_recipe(args.input)
    recipe["shift"] = {
        "pareto_alpha": args.alpha,
        "direction": data_mod.DIRECTION_SOURCE if args.direction == "rs" else data_mod.DIRECTION_TARGET,
        "degree": args.degree,
        "budget": args.budget,
        "min_per_class": args.min_per_class,
        "seed": args.seed,
    }
    dataset = data_mod.materialize_dataset(recipe)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "data.csv", "w") as fh:
        cols = [f"x{i}" for i in range(dataset.features.shape[1])]
        fh.write(",".join(cols + ["label"]) + "\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label}\n")
    data_mod.write_manifest(dataset, out / "manifest.json", recipe, args.seed)
    print(f"wrote {len(dataset)} samples to {out}/data.csv")
    print(f"per-class counts: {dataset.class_counts().tolist()}")
    return 0


def _load_config(args: argparse.Namespace) -> trainer.TrainConfig:
    """The --config file with --out-dir, when given, in place of its out_dir."""
    config = trainer.TrainConfig.from_file(args.config)
    if args.out_dir:
        config.out_dir = args.out_dir
    return config


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.dump_pseudo:
        config.dump_pseudo = True
    report = trainer.run_experiment(config)
    final = report.metrics["final"]
    print(f"method={config.method} seed={config.seed}")
    print(f"final per-class mean accuracy: {final['per_class_mean_accuracy']:.4f}")
    print(f"final overall accuracy:        {final['overall_accuracy']:.4f}")
    if config.out_dir:
        print(f"outputs in {config.out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reports = trainer.sweep_degrees(config, args.degrees)
    table = evaluation.render_table([r.to_dict() for r in reports], "markdown")
    print(table)
    if config.out_dir:
        Path(config.out_dir, "sweep_table.md").write_text(table)
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reports = trainer.run_ablations(config)
    table = evaluation.render_table([r.to_dict() for r in reports], "markdown")
    print(table)
    if config.out_dir:
        Path(config.out_dir, "ablation_table.md").write_text(table)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params = model_mod.load_checkpoint(args.checkpoint)
    manifest = data_mod.read_json_object(args.data, ConsistencyError)
    data_mod.require(manifest, f"{args.data}: manifest ", ("recipe", "sha256"), ConsistencyError)
    dataset = data_mod.materialize_dataset(manifest["recipe"])
    if data_mod.dataset_fingerprint(dataset) != manifest["sha256"]:
        raise ConsistencyError(
            f"{args.data}: the dataset its recipe regenerates does not match its sha256"
        )
    cache = model_mod.forward_full(params, dataset.features)
    predicted = cache.probs.argmax(axis=1)
    cm = evaluation.confusion_matrix(dataset.labels, predicted, dataset.num_classes)
    per_class = evaluation.per_class_mean_accuracy(cm)
    overall = evaluation.overall_accuracy(cm)
    predicted_dist = evaluation.label_distribution(
        np.bincount(predicted, minlength=dataset.num_classes)
    )
    true_dist = evaluation.label_distribution(dataset.class_counts())
    comparison = evaluation.compare_distributions(predicted_dist, true_dist)
    print(f"per-class mean accuracy: {per_class:.4f}")
    print(f"overall accuracy:        {overall:.4f}")
    print(f"predicted-vs-true label JS distance: {comparison['js_distance']:.4f}")
    print(f"predicted-vs-true label L1:          {comparison['l1']:.4f}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "confusion.csv", cm, fmt="%d", delimiter=",")
    projected = evaluation.project_features_2d(cache.embeddings)
    with open(out / "features_2d.csv", "w") as fh:
        fh.write("component1,component2,label\n")
        for row, label in zip(projected, dataset.labels):
            fh.write(f"{row[0]:.12g},{row[1]:.12g},{label}\n")
    print(f"wrote {out}/confusion.csv and {out}/features_2d.csv")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    paths = sorted(glob_mod.glob(args.glob))
    if not paths:
        raise SystemExit(f"no reports match {args.glob!r}")
    reports = [data_mod.read_json_object(p, TableError) for p in paths]
    print(evaluation.render_table(reports, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-shift", help="generate a label-shifted split")
    p.add_argument("--input", required=True, help="csv path or synthetic:k=v,... spec")
    p.add_argument("--alpha", type=float, default=1.0, help="Pareto shape")
    p.add_argument("--degree", type=float, default=100.0, help="shift degree in percent")
    p.add_argument("--budget", type=int, required=True, help="total sample count")
    p.add_argument("--direction", choices=["rs", "ut"], required=True,
                   help="rs = reversed source ranking, ut = target ranking")
    p.add_argument("--min-per-class", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
