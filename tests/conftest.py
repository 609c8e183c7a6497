"""Shared helpers: the pinned twin-Gaussian benchmark grid.

Every fixture run reads ``configs/benchmark.json``, the one definition of
the pinned benchmark configuration. The grid runs every (method, degree,
seed) combination once per session and feeds both the acceptance suite and
the trainer-invariant tests. Every run is deterministic: a repeated run
gives byte-identical metrics. The pytest fixtures that serve them are in
``pinned_fixtures.py``, so this file imports neither pytest nor hypothesis.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from coalign.trainer import ABLATION_FLAGS, TrainConfig, run_experiments

FIXTURE_SEEDS = (1, 2, 3)


def pytest_configure(config):
    # hypothesis draws the same examples on every run (derandomize also
    # turns its example database off) and no per-example deadline applies,
    # so property tests neither flake nor time out on a busy host. The import
    # stays inside the hook: the benchmark loads this file for the pinned
    # fixture and should not pay for hypothesis.
    from hypothesis import settings

    settings.register_profile("coalign", derandomize=True, deadline=None)
    settings.load_profile("coalign")


pytest_plugins = ["pinned_fixtures"]

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"
_PINNED = json.loads(BENCHMARK_CONFIG.read_text())


def fixture_config(method: str, seed: int, degree: float, **overrides) -> TrainConfig:
    """The pinned benchmark configuration of ``configs/benchmark.json``
    (about 2000 samples per run), read as ``coalign train`` reads it, with
    ``method``, ``seed``, the shift ``degree`` and ``overrides`` set and no
    ``out_dir``."""
    doc = copy.deepcopy(_PINNED)
    doc["data"]["shift"]["degree"] = degree
    doc.update({"method": method, "seed": seed, "out_dir": None, **overrides})
    return TrainConfig.from_dict(doc)


def sampler_study_config(sampler: str, seed: int) -> TrainConfig:
    """Two overlapping classes with an 80/20-imbalanced source."""
    return TrainConfig(
        method="source-only",
        seed=seed,
        epochs=30,
        pretrain_epochs=5,
        sampler=sampler,
        temperature=0.3,
        data={
            "twin_gaussians": {
                "num_classes": 2,
                "per_class": 1000,
                "noise": 1.0,
                "rotation_deg": 0.0,
                "translation": [0.0, 0.0],
                "means": [[-0.9, 0.0], [0.9, 0.0]],
                "seed": 11,
            },
            "shift": {
                "pareto_alpha": 1.0,
                "degree": 100.0,
                "budget": 1000,
                "min_per_class": 2,
                "seed": 17,
            },
        },
    )


def final_accuracy(report) -> float:
    return report.metrics["final"]["per_class_mean_accuracy"]


# the wrong JSON values the reader fuzzes put in place of one leaf; 10**400
# is an int that no int64 or float64 holds
WRONG_VALUES = (None, "x", [1, 2], {"a": 1}, float("nan"), float("inf"), float("-inf"),
                -1, -2.5, -0.0, True, 10**400)


def leaf_paths(node, path=()):
    """The key path of every leaf of a nest of dicts and lists."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in leaf_paths(child, path + (key,))]


def with_leaf(doc, path, value):
    """A deep copy of ``doc`` with the leaf at key path ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def benchmark_runs(out_dirs: dict | None = None) -> dict:
    """All fixture runs used by the directional criteria, keyed by
    (method, degree, seed); ablation variants keyed by (flag, 100.0, seed).
    A run whose key ``out_dirs`` holds writes its artifacts and pseudo-label
    dumps to that directory."""
    configs = {(method, degree, seed): fixture_config(method, seed, degree)
               for method in ("source-only", "coal", "marginal-align")
               for degree in (0.0, 100.0) for seed in FIXTURE_SEEDS}
    configs.update({(flag, 100.0, seed): fixture_config("coal", seed, 100.0, ablations=(flag,))
                    for flag in ABLATION_FLAGS for seed in FIXTURE_SEEDS})
    for key, out_dir in (out_dirs or {}).items():
        if key in configs:
            configs[key] = replace(configs[key], out_dir=out_dir, dump_pseudo=True)
    return dict(zip(configs, run_experiments(list(configs.values()))))


def sampler_runs() -> dict:
    """Source-only runs of the sampler study, keyed by (sampler, seed)."""
    configs = {(sampler, seed): sampler_study_config(sampler, seed)
               for sampler in ("balanced", "natural") for seed in FIXTURE_SEEDS}
    return dict(zip(configs, run_experiments(list(configs.values()))))


def grid_mean(grid, method, degree) -> float:
    return float(np.mean([final_accuracy(grid[(method, degree, s)]) for s in FIXTURE_SEEDS]))
