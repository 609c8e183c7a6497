"""Shared helpers: the pinned twin-Gaussian benchmark configuration.

Every fixture run reads ``configs/benchmark.json``, the one definition of
the pinned benchmark configuration. The session's grid is the benchmark's
own ``grid`` workload, which builds its configs through ``fixture_config``
(``pinned_hashes.benchmark_runs``); it runs once per session and feeds both
the acceptance suite and the trainer-invariant tests. Every run is
deterministic: a repeated run gives byte-identical metrics. The pytest
fixtures that serve them are in ``pinned_fixtures.py``, so this file
imports neither pytest nor hypothesis.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from coalign import errors
from coalign.model import init_model
from coalign.trainer import TrainConfig, run_experiments

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

REPO = Path(__file__).resolve().parent.parent
BENCHMARK_CONFIG = REPO / "configs" / "benchmark.json"
_PINNED = json.loads(BENCHMARK_CONFIG.read_text())


def load_coalbench(name: str):
    """The benchmark's ``coalbench/<name>.py``, loaded by path as module
    ``coalbench_<name>``. It goes into ``sys.modules`` before it runs,
    because a dataclass looks its module up there while the module loads."""
    path = REPO / "coalbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"coalbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def fixture_config(method: str, seed: int, degree: float, **overrides) -> TrainConfig:
    """The pinned benchmark configuration of ``configs/benchmark.json``
    (about 2000 samples per run), read as ``coalign train`` reads it, with
    ``method``, ``seed``, the shift ``degree`` and ``overrides`` set and no
    ``out_dir``."""
    doc = copy.deepcopy(_PINNED)
    doc["data"]["shift"]["degree"] = degree
    doc.update({"method": method, "seed": seed, "out_dir": None, **overrides})
    return TrainConfig.from_dict(doc)


def tiny_twin_doc(method: str = "source-only", seed: int = 0, per_class: int = 80,
                  **overrides) -> dict:
    """The tests' tiny config document: two twin-Gaussian classes of
    ``per_class`` samples and a 120-sample source budget at shift degree
    40, one pretraining and two adaptation epochs of batch 16, with
    ``method``, ``seed`` and the top-level ``overrides`` set."""
    return {"method": method, "seed": seed, "epochs": 2, "pretrain_epochs": 1, "batch_size": 16,
            "temperature": 0.3,
            "data": {"twin_gaussians": {"num_classes": 2, "per_class": per_class, "noise": 0.4,
                                        "rotation_deg": 10.0, "translation": [0.0, 0.0],
                                        "means": [[-2.0, 0.0], [2.0, 0.0]], "seed": 3},
                     "shift": {"pareto_alpha": 1.0, "degree": 40.0, "budget": 120,
                               "min_per_class": 2, "seed": 5}},
            **overrides}


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


def identity_extractor_model(dim, num_classes, temperature=0.05, prototypes=None):
    """Single identity layer with zero bias: F(x) = relu(x), so nonnegative
    inputs pass straight through and prototypes can be set directly."""
    params = init_model(dim, (dim,), num_classes, temperature=temperature, seed=0)
    w, b = params.layers[0]
    w.value[...] = np.eye(dim)
    b.value[...] = 0.0
    if prototypes is not None:
        params.prototypes.value[...] = prototypes
    return params


def final_accuracy(report) -> float:
    return report.metrics["final"]["per_class_mean_accuracy"]


# the wrong JSON values the reader fuzzes put in place of one leaf; 10**400
# is an int that no int64 or float64 holds
WRONG_VALUES = (None, "x", [1, 2], {"a": 1}, float("nan"), float("inf"), float("-inf"),
                -1, -2.5, -0.0, True, 10**400)


# with_leaf's value that deletes the key instead
DROP = object()


def _nodes(node, path=()):
    """(key path, node) of every node of a nest of dicts and lists, the top one first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    return [(path, node)] + [pair for key, child in children
                             for pair in _nodes(child, path + (key,))]


def one_change_edits(doc):
    """Every edit of ``doc`` that makes one change, as ``with_leaf``'s (path,
    value) pairs, in three lists: a leaf set to one of WRONG_VALUES, one key
    of a mapping dropped, and the unknown key ``"unknown"`` added to a mapping."""
    nodes = _nodes(doc)
    mappings = [(path, node) for path, node in nodes if isinstance(node, dict)]
    return ([(path, value) for path, node in nodes if not isinstance(node, (dict, list))
             for value in WRONG_VALUES],
            [(path + (key,), DROP) for path, node in mappings for key in node],
            [(path + ("unknown",), 1) for path, _ in mappings])


def with_leaf(doc, path, value):
    """A deep copy of ``doc`` with the leaf at key path ``path`` set to
    ``value``, or deleted when ``value`` is DROP."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def runs_or_fails_with_a_package_error(call):
    """Call ``call``; an error it raises must be a type of ``coalign.errors``.
    Returns that error, or None when the call returns."""
    try:
        call()
    except Exception as exc:  # the assertion is on the type
        assert type(exc).__module__ == errors.__name__, f"{type(exc).__name__}: {exc}"
        return exc
    return None


def sampler_runs() -> dict:
    """Source-only runs of the sampler study, keyed like the ledger's
    ``natural/s3``."""
    configs = {f"{sampler}/s{seed}": sampler_study_config(sampler, seed)
               for sampler in ("balanced", "natural") for seed in FIXTURE_SEEDS}
    return dict(zip(configs, run_experiments(list(configs.values()))))


def grid_mean(grid, method, degree) -> float:
    """The mean final accuracy over the fixture seeds of the grid's
    ``method`` (or ablation flag) runs at ``degree``."""
    return float(np.mean([final_accuracy(grid[f"{method}/d{degree:g}/s{s}"])
                          for s in FIXTURE_SEEDS]))
